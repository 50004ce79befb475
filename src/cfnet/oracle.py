"""Exhaustive small-instance references for certifying the spectral pipeline."""

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


def _partition_cut_weight(weights: np.ndarray, labels: np.ndarray) -> float:
    # the sum of every group's cut, read off the weights and not the Laplacian:
    # each edge between groups counts once per side
    return float(weights[labels[:, None] != labels[None, :]].sum())


def blended_objective(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                      labels: np.ndarray, alpha: float) -> float:
    """alpha-weighted sum of the partition's cut on the two graphs."""
    return (alpha * _partition_cut_weight(graph_t.weights, labels)
            + (1.0 - alpha) * _partition_cut_weight(graph_prev.weights, labels))


def brute_force_best(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                     alpha: float, num_groups: int):
    """Exact minimizer of the blended cut objective over all partitions.

    Returns (partition, objective).  Ties keep the first candidate in
    canonical enumeration order.
    """
    if graph_prev.num_vertices != graph_t.num_vertices:
        raise ValueError("graphs must cover the same base stations")
    best_labels, best_obj = None, np.inf
    for labels in enumerate_partitions(graph_t.num_vertices, num_groups):
        obj = blended_objective(graph_prev, graph_t, labels, alpha)
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    partition = Partition.from_vertex_labels(best_labels, num_groups, graph_t.anchor)
    return partition, float(best_obj)


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
        for labels in enumerate_partitions(graph_t.num_vertices, groups):
            z = np.eye(groups)[labels]
            for graph in (graph_prev, graph_t):
                direct = blended_objective(graph, graph, labels, 1.0)
                trace = float(np.trace(z.T @ graph.laplacian @ z))
                worst = max(worst, abs(direct - trace) / max(1.0, abs(trace)))
                checked += 1
        yield Certificate(
            blended_objective(graph_prev, graph_t, spectral.vertex_labels, alpha),
            optimum, worst, checked)
