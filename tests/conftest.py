import numpy as np
import pytest

from cfnet.channel import RadioParams, channel_gains, sum_rate
from cfnet.clustering import (Partition, SpectralConfig, initial_partition,
                              temporal_smoothed_partition)
from cfnet.graph import AffinityGraph, build_graph
from cfnet.metrics import handover_count, temporal_smoothness
from cfnet.topology import MobilityParams, generate_layout, step_waypoint

TREND_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def graph_pair(seed, num_users, num_bs):
    """Graphs of a seeded layout and of the same layout one waypoint step later."""
    lay = generate_layout(num_users, num_bs, seed=seed)
    g0 = build_graph(channel_gains(lay, RadioParams()))
    lay1 = step_waypoint(lay, MobilityParams(), seed=(seed, 1))
    g1 = build_graph(channel_gains(lay1, RadioParams()))
    return g0, g1


def graph_from_weights(w, anchor=()):
    """Graph with the given weights, its Laplacian and user anchors."""
    lap = np.diag(w.sum(axis=1)) - w
    return AffinityGraph(anchor=np.asarray(anchor, dtype=np.int64), weights=w, laplacian=lap)


def make_partition(labels, anchor, M):
    return Partition.from_vertex_labels(np.asarray(labels), M, np.asarray(anchor))


@pytest.fixture(scope="session")
def two_step_batch():
    """200 seeded one-transition scenarios swept over the alpha grid.

    Returns per-scenario arrays of temporal smoothness, handover counts and
    sum rate, shape (scenarios, len(TREND_ALPHAS)).
    """
    num_scenarios, num_users, num_bs, num_groups = 200, 20, 30, 10
    radio = RadioParams()
    mobility = MobilityParams()
    smooth = np.zeros((num_scenarios, len(TREND_ALPHAS)))
    handovers = np.zeros_like(smooth)
    rate = np.zeros_like(smooth)
    for i in range(num_scenarios):
        base = np.random.SeedSequence(1234, spawn_key=(i,))
        kmeans_seed = np.random.SeedSequence(1234, spawn_key=(i, 3))
        lay0 = generate_layout(num_users, num_bs, base)
        gains0 = channel_gains(lay0, radio)
        graph0 = build_graph(gains0)
        first = initial_partition(
            graph0, SpectralConfig(alpha=1.0, M=num_groups, seed=kmeans_seed))
        lay1 = step_waypoint(lay0, mobility, np.random.SeedSequence(1234, spawn_key=(i, 1)))
        gains1 = channel_gains(lay1, radio)
        graph1 = build_graph(gains1)
        for a, alpha in enumerate(TREND_ALPHAS):
            part = temporal_smoothed_partition(
                graph0, graph1, SpectralConfig(alpha=alpha, M=num_groups, seed=kmeans_seed))
            smooth[i, a] = temporal_smoothness(gains0, part, radio)
            handovers[i, a] = handover_count(first, part)
            rate[i, a] = sum_rate(gains1, part, radio)
    return {"alphas": TREND_ALPHAS, "smoothness": smooth,
            "handovers": handovers, "sum_rate": rate}


def trend_holds(batch_columns, direction, alphas=TREND_ALPHAS):
    """Batch-mean monotone trend with one (unpaired) standard error of slack.

    direction +1 checks non-increasing in alpha, -1 non-decreasing.
    """
    x = np.asarray(batch_columns, dtype=float)
    n = x.shape[0]
    means = x.mean(axis=0)
    for a in range(len(alphas) - 1):
        diff = (means[a] - means[a + 1]) * direction
        slack = np.sqrt(x[:, a].var(ddof=1) / n + x[:, a + 1].var(ddof=1) / n)
        if diff < -slack:
            return False, (alphas[a], alphas[a + 1], diff, slack)
    return True, None
