"""Exhaustive small-instance references for certifying the spectral pipeline."""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .channel import channel_gains
from .clustering import Partition
from .graph import AffinityGraph, build_graph
from .harness import (STREAM_KMEANS, STREAM_LAYOUT, STREAM_MOBILITY,
                      ExperimentConfig, derive_stream)
from .topology import generate_layout, step_waypoint

_CANDIDATE_CAP = 1_000_000

INSTANCE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


class BudgetExceeded(ValueError):
    """The requested enumeration is too large to brute-force."""


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Number of ways to split n items into m nonempty groups."""
    if m < 0 or n < 0:
        raise ValueError("negative arguments")
    if n == 0 and m == 0:
        return 1
    if n == 0 or m == 0 or m > n:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


@dataclass
class EnumerationBudget:
    max_vertices: int = 8
    max_subnetworks: int = 3

    def validate(self) -> None:
        if stirling2(self.max_vertices, self.max_subnetworks) > _CANDIDATE_CAP:
            raise ValueError("budget envelope itself is not enumerable")

    def ensure_within(self, num_vertices: int, num_groups: int) -> None:
        self.validate()
        if num_vertices > self.max_vertices:
            raise BudgetExceeded(
                f"{num_vertices} vertices exceed the budget of {self.max_vertices}")
        if stirling2(num_vertices, num_groups) > _CANDIDATE_CAP:
            raise BudgetExceeded("too many candidate partitions to enumerate")


def enumerate_partitions(num_vertices: int, num_groups: int,
                         budget: Optional[EnumerationBudget] = None) -> Iterator[np.ndarray]:
    """Yield every split of the vertices into exactly `num_groups` groups.

    Each split appears once, in canonical form: labels are numbered in order
    of first appearance (vertex 0 always gets label 0).
    """
    if not 1 <= num_groups <= num_vertices:
        raise ValueError("group count must lie in [1, number of vertices]")
    (budget or EnumerationBudget()).ensure_within(num_vertices, num_groups)

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
    # independent of the graph module: straight sum over ordered vertex pairs
    # with differing labels
    return float(weights[labels[:, None] != labels[None, :]].sum())


def blended_objective(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                      labels: np.ndarray, alpha: float) -> float:
    """alpha-weighted sum of the partition's cut on the two graphs."""
    return (alpha * _partition_cut_weight(graph_t.weights, labels)
            + (1.0 - alpha) * _partition_cut_weight(graph_prev.weights, labels))


def brute_force_best(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                     alpha: float, num_groups: int,
                     budget: Optional[EnumerationBudget] = None):
    """Exact minimizer of the blended cut objective over all partitions.

    Returns (partition, objective).  Ties keep the first candidate in
    canonical enumeration order.
    """
    if graph_prev.num_vertices != graph_t.num_vertices:
        raise ValueError("graphs must cover the same base stations")
    best_labels, best_obj = None, np.inf
    for labels in enumerate_partitions(graph_t.num_vertices, num_groups, budget):
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
    from SeedSequence(seed, spawn_key=(i,)), as step 1 of a trial.  Yields
    (graph_prev, graph_t, alpha, M, kmeans_seed), the latter a SeedSequence.
    """
    budget = EnumerationBudget()
    rng = np.random.default_rng(seed)
    for i in range(count):
        num_bs = int(rng.integers(4, budget.max_vertices + 1))
        num_users = int(rng.integers(2, 13))
        groups = int(rng.integers(2, budget.max_subnetworks + 1))
        config = ExperimentConfig(K=num_users, L=num_bs, M=groups)
        radio = config.radio_params()
        base = np.random.SeedSequence(seed, spawn_key=(i,))
        layout = generate_layout(num_users, num_bs, derive_stream(base, STREAM_LAYOUT))
        moved = step_waypoint(layout, config.mobility_params(),
                              derive_stream(base, STREAM_MOBILITY, 1))
        yield (build_graph(channel_gains(layout, radio)),
               build_graph(channel_gains(moved, radio)),
               INSTANCE_ALPHAS[i % len(INSTANCE_ALPHAS)], groups,
               derive_stream(base, STREAM_KMEANS))
