import numpy as np
import pytest

from cfnet.channel import ChannelGains, RadioParams, channel_gains, complex_channel, sum_rate
from cfnet.clustering import Partition, SpectralConfig, initial_partition
from cfnet.graph import build_graph
from cfnet.metrics import (MetricsRecord, handover_count, record_step,
                           temporal_smoothness, zfbf_evaluation)
from cfnet.topology import Layout, generate_layout

from conftest import trend_holds


def make_partition(labels, anchor, M):
    return Partition.from_vertex_labels(np.asarray(labels), M, np.asarray(anchor))


# ------------------------------------------------------------- smoothness

def test_smoothness_equals_previous_rate_for_static_network():
    lay = generate_layout(8, 6, seed=1)
    gains = channel_gains(lay, RadioParams())
    part = initial_partition(build_graph(gains), SpectralConfig(alpha=1.0, M=2, seed=0))
    # users did not move: scoring "yesterday" equals scoring today
    assert temporal_smoothness(gains, part, RadioParams()) == pytest.approx(
        sum_rate(gains, part, RadioParams()))


def test_smoothness_single_group_has_no_interference():
    lay = generate_layout(5, 4, seed=2)
    gains = channel_gains(lay, RadioParams())
    part = make_partition(np.zeros(4, int), np.argmax(gains.gains, axis=1), 1)
    r = RadioParams().pt_over_sigma2
    expected = np.log2(1.0 + r * gains.gains.max(axis=1)).sum()
    assert temporal_smoothness(gains, part, RadioParams()) == pytest.approx(expected)


def test_smoothness_matches_swapped_gains_oracle():
    # scalar recomputation of the rate chain with every quantity taken from
    # the previous step's gains, labels taken from the current partition
    rng = np.random.default_rng(29)
    gains_prev = ChannelGains(gains=rng.uniform(0.05, 6.0, size=(5, 6)))
    gains_now = ChannelGains(gains=rng.uniform(0.05, 6.0, size=(5, 6)))
    part_now = make_partition(np.array([0, 1, 0, 1, 1, 0]),
                              np.argmax(gains_now.gains, axis=1), 2)
    r = 1.3
    expected = 0.0
    for k in range(5):
        row = gains_prev.gains[k]
        best = max(range(6), key=lambda l: row[l])
        subnet = part_now.vertex_labels[best]  # anchor under yesterday's gains
        interference = sum(row[l] for l in range(6)
                           if part_now.vertex_labels[l] != subnet)
        expected += np.log2(1.0 + r * row[best] / (r * interference + 1.0))
    got = temporal_smoothness(gains_prev, part_now, RadioParams(pt_over_sigma2=r))
    assert got == pytest.approx(expected, rel=1e-12)


def test_smoothness_rejects_fading_gains():
    lay = generate_layout(4, 3, seed=3)
    faded = channel_gains(lay, RadioParams(), fading_seed=1)
    part = make_partition([0, 0, 0], [0, 0, 0, 0], 1)
    with pytest.raises(ValueError):
        temporal_smoothness(faded, part, RadioParams())


# -------------------------------------------------------------- handovers

def test_handover_identical_partitions():
    part = make_partition([0, 1, 0], [0, 1], 2)
    assert handover_count(part, part) == 0


def test_handover_user_moves_to_bigger_subnetwork():
    # user 0 served by {b0}, then by {b1, b2}: two new connections
    prev = make_partition([0, 1, 1], anchor=[0], M=2)
    cur = make_partition([0, 1, 1], anchor=[1], M=2)
    assert handover_count(prev, cur) == 2


def test_handover_swap_between_singleton_subnetworks():
    prev = make_partition([0, 1], anchor=[0, 1], M=2)
    cur = make_partition([0, 1], anchor=[1, 0], M=2)
    assert handover_count(prev, cur) == 2


def test_handover_asymmetric_counts_only_new_connections():
    prev = make_partition([0, 0, 1], anchor=[0], M=2)   # user with {b0, b1}
    cur = make_partition([0, 1, 1], anchor=[0], M=2)    # user with {b0}
    assert handover_count(prev, cur) == 0   # lost b1, gained nothing
    assert handover_count(cur, prev) == 1


def test_handover_bounded_by_full_connection_matrix():
    rng = np.random.default_rng(4)
    for _ in range(30):
        L = int(rng.integers(2, 8))
        K = int(rng.integers(1, 10))
        m = int(rng.integers(1, L + 1))
        def random_partition():
            while True:
                labels = rng.integers(0, m, size=L)
                if len(set(labels.tolist())) == m:
                    return make_partition(labels, rng.integers(0, L, size=K), m)
        a, b = random_partition(), random_partition()
        count = handover_count(a, b)
        assert 0 <= count <= K * L
        assert handover_count(a, a) == 0


# ------------------------------------------------------------------- zfbf

def test_overloaded_subnetwork_gets_zero_rate():
    rng = np.random.default_rng(5)
    h = (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))) / np.sqrt(2)
    # two users anchored at b0 which forms a singleton subnetwork
    part = make_partition([0, 1], anchor=[0, 0, 1], M=2)
    result = zfbf_evaluation(h, part, RadioParams())
    assert result.per_user_rates[0] == 0.0
    assert result.per_user_rates[1] == 0.0
    assert result.overloaded == [0]
    assert result.per_user_rates[2] > 0.0


def test_single_link_matches_scalar_formula():
    h = np.array([[0.6 + 0.8j]])
    part = make_partition([0], anchor=[0], M=1)
    r = 2.5
    result = zfbf_evaluation(h, part, RadioParams(pt_over_sigma2=r))
    expected = np.log2(1.0 + r * np.abs(h[0, 0]) ** 2)
    assert result.per_user_rates[0] == pytest.approx(expected)


def test_zero_forcing_kills_intra_subnetwork_crosstalk():
    rng = np.random.default_rng(6)
    h = (rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))) / np.sqrt(2)
    part = make_partition([0, 0, 0, 0], anchor=[0, 1], M=1)
    result = zfbf_evaluation(h, part, RadioParams())
    assert result.max_crosstalk <= 1e-9
    assert np.all(result.per_user_rates > 0.0)


def test_zfbf_interference_only_from_other_subnetworks():
    rng = np.random.default_rng(7)
    h = (rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))) / np.sqrt(2)
    both = make_partition([0, 0, 1, 1], anchor=[0, 2], M=2)
    alone = make_partition([0, 0], anchor=[0], M=1)
    sub = zfbf_evaluation(h, both, RadioParams())
    solo = zfbf_evaluation(h[:1, :2], alone, RadioParams())
    # user 0 in the two-subnetwork layout sees interference, so its rate drops
    assert sub.per_user_rates[0] < solo.per_user_rates[0] + 1e-12


def test_rank_deficient_subnetwork_flagged_and_silent():
    row = np.array([0.3 + 0.1j, 0.2 - 0.4j])
    h = np.vstack([row, row])        # identical user channels: rank 1
    part = make_partition([0, 0], anchor=[0, 1], M=1)
    result = zfbf_evaluation(h, part, RadioParams())
    assert result.rank_deficient == [0]
    assert np.all(result.per_user_rates == 0.0)


def test_zfbf_total_power_budget_respected():
    rng = np.random.default_rng(9)
    h = (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))) / np.sqrt(2)
    part = make_partition([0] * 5, anchor=[0, 1, 2], M=1)
    pt = 1.7
    # recompute the scaled precoder exactly as the implementation defines it
    pre = np.linalg.pinv(h)
    power = (np.abs(pre) ** 2).sum(axis=0)
    pre = pre * np.sqrt(5 * pt / (3 * power))[None, :]
    assert (np.abs(pre) ** 2).sum() == pytest.approx(5 * pt)
    result = zfbf_evaluation(h, part, RadioParams(pt_over_sigma2=pt))
    expected = np.log2(1.0 + (np.abs((h @ pre).diagonal()) ** 2))
    assert np.allclose(result.per_user_rates, expected)


def test_all_overloaded_network_sums_to_zero():
    rng = np.random.default_rng(10)
    h = (rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))) / np.sqrt(2)
    part = make_partition([0, 1], anchor=[0, 0, 1, 1], M=2)
    result = zfbf_evaluation(h, part, RadioParams())
    assert result.sum_rate == 0.0
    assert sorted(result.overloaded) == [0, 1]


# ------------------------------------------------------------ record_step

def test_record_step_without_history():
    lay = generate_layout(6, 5, seed=12)
    gains = channel_gains(lay, RadioParams())
    part = initial_partition(build_graph(gains), SpectralConfig(alpha=1.0, M=2, seed=0))
    rec = record_step(0, gains, part, RadioParams())
    assert isinstance(rec, MetricsRecord)
    assert rec.time_index == 0
    assert rec.temporal_smoothness is None
    assert rec.handovers is None
    assert rec.zfbf_sum_rate is None
    assert rec.sum_rate == sum_rate(gains, part, RadioParams())


def test_record_step_with_history_fills_all_kpis():
    lay = generate_layout(6, 5, seed=13)
    params = RadioParams()
    gains = channel_gains(lay, params)
    graph = build_graph(gains)
    part = initial_partition(graph, SpectralConfig(alpha=1.0, M=2, seed=0))
    h = complex_channel(lay, params, seed=14)
    rec = record_step(3, gains, part, params, gains_prev=gains,
                      partition_prev=part, zfbf_channel=h)
    assert rec.handovers == 0
    assert rec.temporal_smoothness == pytest.approx(rec.sum_rate)
    assert rec.zfbf_sum_rate is not None and rec.zfbf_sum_rate >= 0.0


# ----------------------------------------------------------------- trends

def test_monotone_link_between_smoothness_and_handovers(two_step_batch):
    ok, detail = trend_holds(two_step_batch["smoothness"], direction=+1)
    assert ok, f"smoothness trend violated: {detail}"
    ok, detail = trend_holds(two_step_batch["handovers"], direction=-1)
    assert ok, f"handover trend violated: {detail}"
