"""Exhaustive small-instance references for certifying the spectral pipeline.

`brute_force_best` scores every partition of a (vertex count, group count)
at once: the canonical partition table is built once per pair and cached,
and one numpy pass gives each row's blended cut as the blended weights'
total minus their within-group part.  That pass sums in another order than
`blended_objective`, so only the rows within a rounding bound of its minimum
are rescored with `blended_objective`, in canonical order, and the first
strict minimum wins: the labels and the objective are those of scoring every
partition with `blended_objective`.
"""

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


def enumerate_partitions(num_vertices: int, num_groups: int) -> Iterator[np.ndarray]:
    """Yield every split of the vertices into exactly `num_groups` groups.

    Each split appears once, in canonical form: labels are numbered in order
    of first appearance (vertex 0 always gets label 0).
    """
    if not 1 <= num_groups <= num_vertices:
        raise ValueError("group count must lie in [1, number of vertices]")
    if num_vertices > MAX_VERTICES:
        raise BudgetExceeded(
            f"{num_vertices} vertices exceed the budget of {MAX_VERTICES}")

    labels = np.zeros(num_vertices, dtype=np.int64)

    def rec(i: int, used: int):
        if i == num_vertices:
            if used == num_groups:
                yield labels.copy()
            return
        remaining = num_vertices - i
        for lab in range(min(used + 1, num_groups)):
            used_next = used + 1 if lab == used else used
            if used_next + remaining - 1 < num_groups:
                continue  # cannot reach the required group count anymore
            labels[i] = lab
            yield from rec(i + 1, used_next)

    yield from rec(1, 1)


@cache
def _partition_table(num_vertices: int, num_groups: int) -> np.ndarray:
    """Every partition of `enumerate_partitions`, one per row in its order.

    The (N, num_vertices) table is read-only, since every caller shares it.
    """
    table = np.array(list(enumerate_partitions(num_vertices, num_groups)))
    table.flags.writeable = False
    return table


def _partition_cut_weight(weights: np.ndarray, labels: np.ndarray) -> float:
    # the sum of every group's cut, read off the weights and not the Laplacian:
    # each edge between groups counts once per side
    return float(weights[labels[:, None] != labels[None, :]].sum())


def blended_objective(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                      labels: np.ndarray, alpha: float) -> float:
    """alpha-weighted sum of the partition's cut on the two graphs."""
    return (alpha * _partition_cut_weight(graph_t.weights, labels)
            + (1.0 - alpha) * _partition_cut_weight(graph_prev.weights, labels))


def _scoring_bound(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                   alpha: float) -> float:
    """Bound on the gap between a row's one-pass score and `blended_objective`.

    With S = |alpha| sum|w_t| + |1 - alpha| sum|w_prev| and L vertices, the
    one-pass score lies within gamma_{2L^2+8} * S of the exact blended cut
    and `blended_objective` within gamma_{L^2+2} * S, in any summation order
    (gamma_n = n u / (1 - n u), u the unit roundoff); the bound takes
    gamma_{4L^2+16} * S, which also covers the rounding of S itself.  Sums
    of |w| and not of w, since negative weights cancel in the cut but not in
    its rounding error.  The last term covers the absolute error of gradual
    underflow.
    """
    num_vertices = graph_t.num_vertices
    n = 4 * num_vertices * num_vertices + 16
    nu = n * np.finfo(float).eps / 2
    scale = (abs(alpha) * np.abs(graph_t.weights).sum()
             + abs(1.0 - alpha) * np.abs(graph_prev.weights).sum())
    return nu / (1.0 - nu) * float(scale) + n * 2.0 ** -1070


def brute_force_best(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                     alpha: float, num_groups: int):
    """Exact minimizer of the blended cut objective over all partitions.

    Returns (partition, objective).  Ties keep the first candidate in
    canonical enumeration order.  Every row of the partition table is scored
    in one pass; the rows within twice `_scoring_bound` of the lowest score,
    which hold every minimizer of `blended_objective`, are rescored with it.
    """
    if graph_prev.num_vertices != graph_t.num_vertices:
        raise ValueError("graphs must cover the same base stations")
    table = _partition_table(graph_t.num_vertices, num_groups)
    bound = _scoring_bound(graph_prev, graph_t, alpha)
    if not np.isfinite(bound):
        raise ValueError("alpha and the graph weights must be finite, with finite sums")
    blend = alpha * graph_t.weights + (1.0 - alpha) * graph_prev.weights
    within = 0.0
    for m in range(num_groups):
        member = (table == m).astype(float)       # (N, L) indicator of group m
        within = within + ((member @ blend) * member).sum(axis=1)
    score = blend.sum() - within
    near = np.flatnonzero(score <= score.min() + 2.0 * bound)
    exact = [blended_objective(graph_prev, graph_t, table[i], alpha) for i in near]
    k = int(np.argmin(exact))                 # the first of equal minima
    partition = Partition.from_vertex_labels(table[near[k]].copy(), num_groups, graph_t.anchor)
    return partition, float(exact[k])


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
    graph) pairs checked: every enumerated partition on both graphs.
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
        worst, checked = 0.0, 0
        for labels in _partition_table(graph_t.num_vertices, groups):
            z = np.eye(groups)[labels]
            for graph in (graph_prev, graph_t):
                direct = blended_objective(graph, graph, labels, 1.0)
                trace = float(np.trace(z.T @ graph.laplacian @ z))
                worst = max(worst, abs(direct - trace) / max(1.0, abs(trace)))
                checked += 1
        yield Certificate(
            blended_objective(graph_prev, graph_t, spectral.vertex_labels, alpha),
            optimum, worst, checked)
