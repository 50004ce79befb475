import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnet.channel import ChannelGains, RadioParams, channel_gains
from cfnet.clustering import Partition
from cfnet.graph import AffinityGraph, build_graph, cut_value, sum_cut
from cfnet.topology import generate_layout


def graph_from_weights(w):
    lap = np.diag(w.sum(axis=1)) - w
    return AffinityGraph(anchor=np.zeros(0, np.int64), weights=w, laplacian=lap)


def random_graph(seed, num_users=8, num_bs=6):
    lay = generate_layout(num_users, num_bs, seed=seed)
    return build_graph(channel_gains(lay, RadioParams()))


def test_no_users_gives_zero_weights():
    gains = ChannelGains(gains=np.zeros((0, 4)))
    g = build_graph(gains)
    assert np.array_equal(g.weights, np.zeros((4, 4)))
    assert np.array_equal(g.laplacian, np.zeros((4, 4)))


def test_hand_worked_two_bs_graph():
    gains = ChannelGains(gains=np.array([[4.0, 1.0]]))
    g = build_graph(gains)
    assert g.anchor.tolist() == [0]
    assert np.allclose(g.weights, [[0.0, 0.25], [0.25, 0.0]])
    assert np.allclose(g.laplacian, [[0.25, -0.25], [-0.25, 0.25]])


def test_weight_formula_matches_loop_oracle():
    rng = np.random.default_rng(2)
    gains = ChannelGains(gains=rng.uniform(0.1, 5.0, size=(7, 5)))
    g = build_graph(gains)
    anchor = [max(range(5), key=lambda l: gains.gains[k, l]) for k in range(7)]
    for i in range(5):
        for j in range(5):
            if i == j:
                expected = 0.0
            else:
                expected = sum(gains.gains[k, j] / gains.gains[k, i]
                               for k in range(7) if anchor[k] == i)
                expected += sum(gains.gains[k, i] / gains.gains[k, j]
                                for k in range(7) if anchor[k] == j)
            assert g.weights[i, j] == pytest.approx(expected, rel=1e-12)


def test_construction_invariants_random_instances():
    for seed in range(20):
        g = random_graph(seed)
        assert np.array_equal(g.weights, g.weights.T)  # exact symmetry
        assert np.all(np.diag(g.weights) == 0.0)
        assert np.all(g.weights >= 0.0)
        assert np.abs(g.laplacian.sum(axis=1)).max() <= 1e-9
        eigvals = np.linalg.eigvalsh(g.laplacian)
        assert eigvals.min() >= -1e-8


def test_build_graph_rejects_fading_gains():
    gains = ChannelGains(gains=np.ones((2, 3)), includes_fading=True)
    with pytest.raises(ValueError):
        build_graph(gains)


def test_cut_of_everything_and_nothing_is_zero():
    g = random_graph(3)
    assert cut_value(g, range(g.num_vertices)) == 0.0
    assert cut_value(g, []) == 0.0


def test_cut_hand_example():
    w = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 3.0],
                  [2.0, 3.0, 0.0]])
    g = graph_from_weights(w)
    assert cut_value(g, [0]) == pytest.approx(3.0)
    assert cut_value(g, [0, 1]) == pytest.approx(5.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.integers(0, 2**6 - 1))
def test_cut_complement_symmetry(seed, bits):
    g = random_graph(seed % 50, num_users=6, num_bs=6)
    subset = [i for i in range(6) if bits >> i & 1]
    complement = [i for i in range(6) if not bits >> i & 1]
    assert cut_value(g, subset) == pytest.approx(cut_value(g, complement))


def test_sum_cut_single_group_is_zero():
    g = random_graph(4)
    part = Partition.from_vertex_labels(np.zeros(g.num_vertices, int), 1, g.anchor)
    assert sum_cut(g, part) == 0.0


def test_sum_cut_fully_split_double_counts_every_edge():
    g = random_graph(5)
    L = g.num_vertices
    part = Partition.from_vertex_labels(np.arange(L), L, g.anchor)
    expected = 2.0 * np.triu(g.weights, 1).sum()
    assert sum_cut(g, part) == pytest.approx(expected, rel=1e-12)


def test_sum_cut_equals_indicator_trace():
    # quadratic-form identity certifies the cut/Laplacian reformulation
    from cfnet.oracle import enumerate_partitions
    for seed in range(10):
        g = random_graph(seed, num_users=9, num_bs=6)
        for M in (2, 3):
            for labels in enumerate_partitions(6, M):
                part = Partition.from_vertex_labels(labels, M, g.anchor)
                z = np.zeros((6, M))
                z[np.arange(6), labels] = 1.0
                trace = float(np.trace(z.T @ g.laplacian @ z))
                direct = sum_cut(g, part)
                assert direct == pytest.approx(trace, rel=1e-9, abs=1e-9)


def test_anchor_indexes_strongest_bs():
    rng = np.random.default_rng(11)
    gains = ChannelGains(gains=rng.uniform(0.1, 4.0, size=(10, 8)))
    g = build_graph(gains)
    assert np.array_equal(g.anchor, np.argmax(gains.gains, axis=1))
